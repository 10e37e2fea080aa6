"""The oracle layer: finite-difference residuals, Wronskian constancy,
the identity harness over every transformation-table row, and the
recursion-variant adjudicator.

This module also owns the *printed* table data (exactly as published) and
the machinery that adjudicates each entry numerically, repairs misprints
from a candidate set, and regenerates the frozen data files shipped in
``darboux/data``.  Failures of printed entries are data, not errors: the
harness reports them together with the unique repair that passes.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (
    JACOBI_CODES,
    ModulusData,
    _glyph,
    _lattice_remainder,
    complete_elliptic,
    jacobi_sn_cn_dn,
    lambda_of_tau,
    singular_points,
)
from .errors import (
    DegenerateWronskian,
    InconclusiveAdjudication,
    PoleProximity,
    UntrustedCalibration,
)
from .series import (
    ParamTuple,
    darboux_potential,
    dl_coefficients,
    dl_eval,
    polynomial_eigenvalues,
    termination_check,
)
from .symmetry import (
    ANH_TAGS,
    CROSS_RATIOS,
    GlyphEntry,
    accessory_map,
    scalar_value,
)

# ---------------------------------------------------------------------------
# printed tables (provenance; adjudication starts from these)

#: substitution scale and modulus map per anharmonic type, as printed
PRINTED_SCALE = {"I": (0, 0, 0), "A": (0, 0, 1), "B": (3, 0, 0),
                 "C": (0, 1, 0), "D": (3, 0, 1), "E": (3, 1, 0)}
PRINTED_KAPPA = {"I": (0, 1, 0), "A": (1, 1, -1), "B": (0, 0, 1),
                 "C": (0, -1, 0), "D": (0, 0, -1), "E": (1, -1, 1)}
PRINTED_KAPPA_PRIME = {"I": (0, 0, 1), "A": (0, 0, -1), "B": (0, 1, 0),
                       "C": (3, -1, 1), "D": (3, 1, -1), "E": (0, -1, 0)}

#: matrix representatives and the printed lambda/rho pairings
PRINTED_ANH = {
    "I": {"matrix": ((1, 0), (0, 1)), "cross": "lam", "rho": (0, 1, 2)},
    "A": {"matrix": ((1, 0), (1, 1)), "cross": "lam/(lam-1)", "rho": (0, 2, 1)},
    "B": {"matrix": ((0, 1), (-1, 0)), "cross": "1/lam", "rho": (2, 1, 0)},
    "C": {"matrix": ((1, 1), (0, 1)), "cross": "1-lam", "rho": (1, 0, 2)},
    "D": {"matrix": ((-1, 1), (-1, 0)), "cross": "(lam-1)/lam", "rho": (1, 2, 0)},
    "E": {"matrix": ((0, 1), (-1, -1)), "cross": "1/(1-lam)", "rho": (2, 0, 1)},
}

#: printed quarter periods K(kappa), K'(kappa): scale * (cK*K + cKp*K')
PRINTED_QUARTER = {
    "I": ((0, 0, 0), (1, 0), (0, 1)),
    "A": ((0, 0, 1), (1, 0), (-1j, 1)),
    "B": ((0, 0, 0), (0, 1), (1, 0)),
    "C": ((0, 1, 0), (1, 1j), (0, 1)),
    "D": ((0, 0, 1), (0, 1 + 1j), (1, 0)),   # the (K'+iK') reading, a suspected misprint
    "E": ((0, 1, 0), (0, 1), (1, 1j)),
}

#: Weierstrass-form accessory map per anharmonic type
HW_TAGS = {"I": "h", "A": "(tau-1)^2*h", "B": "tau^2*h",
           "C": "h", "D": "tau^2*h", "E": "(tau-1)^2*h"}

#: printed 24-row joint table: shift index and three (scalar, glyph) entries
PRINTED_ROWS = {
    "I0": (0, [((0, 0, 0), "sn"), ((0, 0, 0), "cn"), ((0, 0, 0), "dn")]),
    "I1": (1, [((0, 0, 0), "cd"), ((2, 0, 1), "sd"), ((0, 0, 1), "nd")]),
    "I2": (2, [((0, -1, 0), "dc"), ((1, -1, 1), "nc"), ((1, 0, 1), "sc")]),
    "I3": (3, [((0, -1, 0), "ns"), ((3, -1, 0), "ds"), ((3, 0, 0), "cs")]),
    "A0": (0, [((0, 0, 1), "sd"), ((0, 0, 0), "cd"), ((0, 0, 0), "nd")]),
    "A1": (1, [((0, 0, 0), "cn"), ((2, 0, 0), "sn"), ((0, 0, -1), "dn")]),
    "A2": (2, [((3, -1, 0), "ds"), ((0, -1, 0), "ns"), ((3, 0, -1), "cs")]),
    "A3": (3, [((1, -1, 1), "nc"), ((0, -1, 0), "dc"), ((1, 0, 0), "sc")]),
    "B0": (0, [((1, 0, 0), "sc"), ((0, 0, 0), "nc"), ((0, 0, 0), "dc")]),
    "B1": (1, [((1, 0, -1), "cs"), ((0, 0, -1), "ds"), ((2, 0, 0), "ns")]),
    "B2": (2, [((0, 0, -1), "dn"), ((1, 1, -1), "cn"), ((0, 1, 0), "sn")]),
    "B3": (3, [((0, 0, 0), "nd"), ((1, 1, 0), "sd"), ((0, 1, 0), "cd")]),
    "C0": (0, [((0, 1, 0), "sn"), ((0, 0, 0), "dn"), ((0, 0, 0), "cn")]),
    "C1": (1, [((0, 1, 0), "cd"), ((0, 0, 1), "nd"), ((2, 0, 1), "sd")]),
    "C2": (2, [((0, 0, 0), "dc"), ((1, 0, 1), "sc"), ((1, -1, 1), "nc")]),
    "C3": (3, [((0, 0, 0), "ns"), ((3, 0, 0), "cs"), ((3, -1, 0), "dc")]),
    "D0": (0, [((3, 0, 1), "sc"), ((0, 0, 0), "dc"), ((0, 0, 0), "nc")]),
    "D1": (2, [((3, 0, 0), "cs"), ((2, 0, 0), "ns"), ((2, 0, -1), "ds")]),  # shift printed as D2's
    "D2": (2, [((0, 0, 0), "dn"), ((0, 1, 0), "sn"), ((1, 1, -1), "cn")]),
    "D3": (3, [((0, 0, 1), "nd"), ((0, 1, 0), "cd"), ((1, 1, 0), "sd")]),
    "E0": (0, [((3, 1, 0), "sd"), ((0, 0, 0), "nd"), ((0, 0, 0), "cd")]),
    "E1": (1, [((3, 1, -1), "cs"), ((0, 0, -1), "dn"), ((2, 0, 0), "sn")]),
    "E2": (2, [((3, 0, -1), "ds"), ((3, 0, -1), "cs"), ((0, -1, 0), "ns")]),
    "E3": (3, [((0, 0, 0), "nc"), ((1, 0, 0), "sc"), ((0, -1, 0), "dc")]),
}

#: printed sigma permutations (index maps: new slot j carries old param perm[j])
PRINTED_SIGMAS = {
    "I0": (0, 1, 2, 3), "I1": (1, 0, 3, 2), "I2": (2, 3, 0, 1), "I3": (3, 2, 1, 0),
    "A0": (0, 1, 3, 2), "A1": (1, 0, 2, 3), "A2": (2, 3, 1, 0), "A3": (3, 2, 0, 1),
    "B0": (0, 3, 2, 1), "B1": (1, 2, 3, 0), "B2": (2, 1, 0, 3), "B3": (3, 0, 1, 2),
    "C0": (0, 2, 1, 3), "C1": (1, 3, 0, 2), "C2": (2, 0, 3, 1), "C3": (3, 1, 2, 0),
    "D0": (0, 2, 3, 1), "D1": (1, 3, 2, 0), "D2": (2, 0, 1, 3), "D3": (3, 1, 0, 2),
    "E0": (0, 3, 1, 2), "E1": (1, 2, 0, 3), "E2": (2, 1, 3, 0), "E3": (3, 0, 2, 1),
}

DEFAULT_K_VALUES = (0.3, 0.6, 0.9)


def _default_u_grid(seed: int = 7, n: int = 8) -> list[complex]:
    rng = np.random.default_rng(seed)
    return [complex(0.15 + 1.1 * a, 0.6 * (b - 0.5))
            for a, b in zip(rng.random(n), rng.random(n))]


def _printed_substitution(anh: str, shift: int, k: complex) -> tuple[complex, complex, complex]:
    """The printed substitution w = a (u + b) of a row and its new modulus
    kappa, as (a, b, kappa) at the modulus k."""
    kp = cmath.sqrt(1 - k * k)
    a = scalar_value(PRINTED_SCALE[anh], k, kp)
    kappa = scalar_value(PRINTED_KAPPA[anh], k, kp)
    return a, singular_points(k)[shift], kappa


# ---------------------------------------------------------------------------
# finite-difference residual oracle


@dataclass(frozen=True)
class ResidualReport:
    """Maximum relative ODE residual over a grid, with its calibration run.

    A report is trustworthy only if `calibration_residual` (the same
    stencil applied to sin against y'' + y = 0) is itself small.
    """

    max_relative_residual: float
    grid_size: int
    step: float
    calibration_residual: float

    @property
    def trusted(self) -> bool:
        return self.calibration_residual <= 1e-9


#: default FD step: one Richardson level over a 5-point stencil leaves a
#: ~|f| eps / s^2 rounding floor, so 4e-3 keeps the sin calibration under
#: 1e-10 where 1e-3 would not.
DEFAULT_FD_STEP = 4e-3


def second_derivative(f, u: complex, step: float, direction: complex = 1.0) -> complex:
    """5-point central second derivative with one Richardson level."""
    d = direction / abs(direction)

    def stencil(s: float) -> complex:
        h = s * d
        return (
            -f(u + 2 * h) + 16 * f(u + h) - 30 * f(u) + 16 * f(u - h) - f(u - 2 * h)
        ) / (12 * s * s * d * d)

    return (16 * stencil(step / 2) - stencil(step)) / 15


def _calibration(grid_size: int, step: float) -> float:
    worst = 0.0
    for x in np.linspace(0.4, 1.9, max(grid_size, 5)):
        d2 = second_derivative(cmath.sin, x, step)
        y = cmath.sin(x)
        worst = max(worst, abs(d2 + y) / (abs(d2) + abs(y) + 1e-300))
    return worst


def ode_residual(
    f,
    p: ParamTuple,
    grid,
    step: float = DEFAULT_FD_STEP,
    guard: float = 0.05,
    require_trusted: bool = True,
) -> ResidualReport:
    """Max relative residual of y'' + (h - V) y = 0 for the callable f.

    Grid points must keep the guard distance from all four singular points
    (and their lattice translates).  The same stencil is calibrated on
    y = sin against y'' + y = 0; an untrusted calibration raises unless
    `require_trusted` is off.
    """
    md = ModulusData.from_modulus(p.k)
    pts = list(grid)
    for u in pts:
        for s in singular_points(p.k):
            if _lattice_remainder(complex(u) - s, 2 * md.K, 2j * md.Kp) < guard:
                raise PoleProximity(f"grid point {u} within guard of singular point")
    worst = 0.0
    for u in pts:
        d2 = second_derivative(f, u, step)
        rest = (p.h - darboux_potential(u, p)) * f(u)
        worst = max(worst, abs(d2 + rest) / (abs(d2) + abs(rest) + 1e-300))
    cal = _calibration(len(pts), step)
    report = ResidualReport(
        max_relative_residual=worst,
        grid_size=len(pts),
        step=step,
        calibration_residual=cal,
    )
    if require_trusted and not report.trusted:
        raise UntrustedCalibration(f"calibration residual {cal:.3e} > 1e-9")
    return report


def wronskian_constancy(f, g, grid, step: float = DEFAULT_FD_STEP) -> float:
    """Max relative deviation of W = f g' - f' g from its grid mean.

    Raises DegenerateWronskian when the mean is numerically zero (the two
    solutions are proportional: resonance warning).
    """

    def d1(fn, u):
        def stencil(s):
            return (fn(u - 2 * s) - 8 * fn(u - s) + 8 * fn(u + s) - fn(u + 2 * s)) / (12 * s)

        return (16 * stencil(step / 2) - stencil(step)) / 15

    ws = [f(u) * d1(g, u) - d1(f, u) * g(u) for u in grid]
    mean = sum(ws) / len(ws)
    scale = max(abs(w) for w in ws)
    if abs(mean) < 1e-10 * max(scale, 1e-30) or scale == 0:
        raise DegenerateWronskian("Wronskian mean is numerically zero")
    return max(abs(w - mean) for w in ws) / abs(mean)


# ---------------------------------------------------------------------------
# identity harness and table adjudication


@dataclass
class CheckRecord:
    """One adjudicated table field."""

    table: str           # "joint", "quarter", "lambda", "rho", "sigma", "accessory"
    row: str
    fld: str
    status: str          # "ok" | "repaired" | "failed"
    max_error: float
    printed: str
    adopted: str
    note: str = ""

    def as_json(self) -> str:
        return json.dumps(self.__dict__)


@dataclass
class HarnessReport:
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "failed"]

    @property
    def repairs(self) -> list[CheckRecord]:
        return [r for r in self.records if r.status == "repaired"]

    def passed(self) -> bool:
        return not self.failures


def _row_entry_error(anh, shift, j, scalar, glyph, k_values, u_grid) -> float:
    worst = 0.0
    for k in k_values:
        k = complex(k)
        kp = cmath.sqrt(1 - k * k)
        a, b, kappa = _printed_substitution(anh, shift, k)
        for u in u_grid:
            w = a * (u + b)
            lhs = jacobi_sn_cn_dn(w, kappa)[j]
            rhs = scalar_value(scalar, k, kp) * _glyph(glyph, *jacobi_sn_cn_dn(u, k))
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _repair_candidates(scalar, glyph):
    a0, b0, c0 = scalar
    for da in range(4):
        for g in JACOBI_CODES:
            for b in (-1, 0, 1):
                for c in (-1, 0, 1):
                    yield ((a0 + da) % 4, b, c), g


def _entry_str(scalar, glyph) -> str:
    return str(GlyphEntry(scalar=scalar, glyph=glyph))


def adjudicate_joint_table(k_values=DEFAULT_K_VALUES, u_grid=None, tol=1e-10):
    """Check all 24 rows x 3 glyph identities; repair failing entries.

    The candidate space is sign/i-factor flips times glyph swaps times
    small k/k' power shifts; a repair is adopted only if it is the unique
    candidate passing at `tol` on the full (k, u) sample.  Returns the
    adopted rows together with the check records.
    """
    if u_grid is None:
        u_grid = _default_u_grid()
    records = []
    adopted_rows = {}
    for name, (printed_shift, printed_entries) in PRINTED_ROWS.items():
        anh = name[0]
        label_shift = int(name[1])
        shift = printed_shift
        row_repairs = []
        if name == "D1":
            # printed substitution duplicates D2's; Klein-coset uniqueness
            # forces the remaining representative u + K.
            shift = label_shift
            records.append(CheckRecord(
                table="joint", row=name, fld="substitution", status="repaired",
                max_error=math.nan,
                printed="-i*kp*(u+K+iKp)", adopted="-i*kp*(u+K)",
                note="printed substitution identical to D2; repaired to the missing Klein coset",
            ))
            row_repairs.append("substitution: -i*kp*(u+K+iKp) -> -i*kp*(u+K)")
        entries = []
        for j, (scalar, glyph) in enumerate(printed_entries):
            err = _row_entry_error(anh, shift, j, scalar, glyph, k_values, u_grid)
            fld = ("sn", "cn", "dn")[j]
            if err < tol:
                entries.append(GlyphEntry(scalar=scalar, glyph=glyph))
                records.append(CheckRecord(
                    table="joint", row=name, fld=fld, status="ok", max_error=err,
                    printed=_entry_str(scalar, glyph), adopted=_entry_str(scalar, glyph),
                ))
                continue
            hits = []
            for cand_scalar, cand_glyph in _repair_candidates(scalar, glyph):
                # cheap single-sample rejection before the full grid
                quick = _row_entry_error(anh, shift, j, cand_scalar, cand_glyph,
                                         k_values[:1], u_grid[:1])
                if quick >= tol:
                    continue
                e = _row_entry_error(anh, shift, j, cand_scalar, cand_glyph, k_values, u_grid)
                if e < tol:
                    hits.append((cand_scalar, cand_glyph, e))
            if len(hits) == 1:
                cs, cg, ce = hits[0]
                entries.append(GlyphEntry(scalar=cs, glyph=cg))
                records.append(CheckRecord(
                    table="joint", row=name, fld=fld, status="repaired", max_error=ce,
                    printed=_entry_str(scalar, glyph), adopted=_entry_str(cs, cg),
                    note=f"printed entry off by {err:.2e}",
                ))
                row_repairs.append(f"{fld}: {_entry_str(scalar, glyph)} -> {_entry_str(cs, cg)}")
            else:
                records.append(CheckRecord(
                    table="joint", row=name, fld=fld, status="failed", max_error=err,
                    printed=_entry_str(scalar, glyph), adopted="",
                    note=f"{len(hits)} candidates passed",
                ))
                entries.append(GlyphEntry(scalar=scalar, glyph=glyph))
        adopted_rows[name] = {
            "name": name,
            "anh": anh,
            "shift": shift,
            "perm": list(PRINTED_SIGMAS[name]),
            "entries": [[list(e.scalar), e.glyph] for e in entries],
            "repairs": row_repairs,
        }
    return adopted_rows, records


def derive_sigma_from_substitution(name: str, k: complex = 0.6 + 0j) -> tuple[int, ...]:
    """Independent sigma derivation: classify the preimage of each new-frame
    singular point against the old singular points modulo the period lattice."""
    k = complex(k)
    a, b, kappa = _printed_substitution(name[0], adjudicated_shift(name), k)
    md = ModulusData.from_modulus(k)
    old_points = singular_points(k)
    perm = []
    for s in singular_points(kappa):
        u_star = s / a - b
        dists = [_lattice_remainder(u_star - o, 2 * md.K, 2j * md.Kp) for o in old_points]
        j = int(np.argmin(dists))
        if dists[j] > 1e-8:
            raise ValueError(f"{name}: preimage of {s} not a singular point")
        perm.append(j)
    return tuple(perm)


def adjudicated_shift(name: str) -> int:
    return int(name[1]) if name == "D1" else PRINTED_ROWS[name][0]


def adjudicate_sigmas(k_values=DEFAULT_K_VALUES):
    """Cross-check every printed sigma against the substitution-derived one."""
    records = []
    for name in PRINTED_ROWS:
        derived = {derive_sigma_from_substitution(name, k) for k in k_values}
        printed = PRINTED_SIGMAS[name]
        ok = derived == {printed}
        records.append(CheckRecord(
            table="sigma", row=name, fld="perm",
            status="ok" if ok else "failed", max_error=0.0 if ok else math.inf,
            printed=str(printed), adopted=str(sorted(derived)[0]),
        ))
    return records


def adjudicate_quarter_periods(k_values=DEFAULT_K_VALUES, tol=1e-10):
    """Adjudicate the K(kappa_X), K'(kappa_X) columns against complete_elliptic."""
    records = []
    adopted = {}
    cand_coeffs = (0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j)
    for X in ANH_TAGS:
        qscale, pK, pKp = PRINTED_QUARTER[X]
        adopted[X] = {"quarter_scale": list(qscale)}
        for fld, printed_pair, pick in (("K", pK, 0), ("Kp", pKp, 1)):
            def err_of(pair):
                worst = 0.0
                for k in k_values:
                    k = complex(k)
                    kp = cmath.sqrt(1 - k * k)
                    K, Kp = complete_elliptic(k)
                    kappa = scalar_value(PRINTED_KAPPA[X], k, kp)
                    target = complete_elliptic(kappa)[pick]
                    pred = scalar_value(qscale, k, kp) * (pair[0] * K + pair[1] * Kp)
                    worst = max(worst, abs(target - pred) / abs(target))
                return worst

            err = err_of(printed_pair)
            if err < tol:
                adopted[X]["quarter_" + fld] = printed_pair
                records.append(CheckRecord(
                    table="quarter", row=X, fld=fld, status="ok", max_error=err,
                    printed=str(printed_pair), adopted=str(printed_pair),
                ))
                continue
            hits = [
                ((c1, c2), err_of((c1, c2)))
                for c1 in cand_coeffs
                for c2 in cand_coeffs
                if (c1, c2) != (0, 0) and err_of((c1, c2)) < tol
            ]
            if len(hits) == 1:
                pair, e = hits[0]
                adopted[X]["quarter_" + fld] = pair
                note = ("branch convention: principal-AGM value sits on the other side "
                        "of the cut" if X in ("C", "E") else "misprint repaired")
                records.append(CheckRecord(
                    table="quarter", row=X, fld=fld, status="repaired", max_error=e,
                    printed=str(printed_pair), adopted=str(pair), note=note,
                ))
            else:
                records.append(CheckRecord(
                    table="quarter", row=X, fld=fld, status="failed", max_error=err,
                    printed=str(printed_pair), adopted="", note=f"{len(hits)} candidates",
                ))
                adopted[X]["quarter_" + fld] = printed_pair
    return adopted, records


def adjudicate_lambda_pairings(taus=(0.31 + 1.13j, -0.4 + 0.9j, 2.1j), tol=1e-10):
    """Pair each matrix representative with the cross-ratio it realizes on
    lambda and with the weight-2 permutation of the lattice e-values."""
    from .weierstrass import evalues_from_tau

    records = []
    adopted = {}
    perms = {p: p for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (2, 1, 0), (1, 2, 0), (2, 0, 1)]}
    for X in ANH_TAGS:
        (a, b), (c, d) = PRINTED_ANH[X]["matrix"]
        cross_hits = []
        for tag, f in CROSS_RATIOS.items():
            e = max(
                abs(lambda_of_tau((a * t + b) / (c * t + d)) - f(lambda_of_tau(t)))
                for t in taus
            )
            if e < tol:
                cross_hits.append((tag, e))
        rho_hits = []
        for perm in perms:
            errs = []
            for t in taus:
                ev = evalues_from_tau(t)
                evn = evalues_from_tau((a * t + b) / (c * t + d))
                errs.append(max(
                    abs(evn[j] - (c * t + d) ** 2 * ev[perm[j]]) / max(1.0, abs(evn[j]))
                    for j in range(3)
                ))
            if max(errs) < 1e-8:
                rho_hits.append((perm, max(errs)))
        assert len(cross_hits) == 1 and len(rho_hits) == 1, (X, cross_hits, rho_hits)
        cross, ce = cross_hits[0]
        rho, re_ = rho_hits[0]
        adopted[X] = {"cross_ratio": cross, "rho": list(rho)}
        pc = PRINTED_ANH[X]["cross"]
        pr = PRINTED_ANH[X]["rho"]
        records.append(CheckRecord(
            table="lambda", row=X, fld="cross_ratio",
            status="ok" if cross == pc else "repaired", max_error=ce,
            printed=pc, adopted=cross,
            note="" if cross == pc else "pairing fixed by the lambda = k^2 normalization",
        ))
        records.append(CheckRecord(
            table="rho", row=X, fld="rho",
            status="ok" if tuple(rho) == pr else "repaired", max_error=re_,
            printed=str(pr), adopted=str(tuple(rho)),
            note="" if tuple(rho) == pr else "pairing fixed by the lambda = k^2 normalization",
        ))
    return adopted, records


def adjudicate_accessory_maps(k_values=DEFAULT_K_VALUES, tol=1e-9):
    """Confirm every row's (sigma, h_X, kappa_X, substitution) jointly via
    the equation-covariance identity h - V(u) = a^2 (h_X - V(w)).

    This is the oracle that settles row D's printed h-map (which carries a
    spurious leading h factor) in favor of (-h + S)/k'^2.
    """
    params = (0.23, -0.41, 0.57, 1.13)
    h = 0.77
    S = sum(g * (g + 1) for g in params)
    records = []
    for name, sigma in PRINTED_SIGMAS.items():
        anh = name[0]
        shift = adjudicated_shift(name)
        worst = 0.0
        for k in k_values:
            k = complex(k)
            a, b, kappa = _printed_substitution(anh, shift, k)
            hX = accessory_map(anh, h, S, k)
            newp = tuple(params[sigma[j]] for j in range(4))
            for u in (0.31 + 0.12j, 0.77 - 0.2j, 1.1 + 0.33j):
                w = a * (u + b)
                lhs = h - darboux_potential(u, ParamTuple(*params, h=0, k=k))
                rhs = a * a * (hX - darboux_potential(w, ParamTuple(*newp, h=0, k=kappa)))
                worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs)))
        note = ""
        if anh == "D":
            note = "adjudicated h_D = (-h+S)/kp^2; printed table carries a spurious h factor"
        records.append(CheckRecord(
            table="accessory", row=name, fld="h/sigma/kappa",
            status="ok" if worst < tol else "failed", max_error=worst,
            printed="", adopted="", note=note,
        ))
    return records


def identity_harness(k_values=DEFAULT_K_VALUES, u_grid=None, tol: float = 1e-10) -> HarnessReport:
    """Run every table check: 24 rows x 3 glyphs, quarter-period columns,
    lambda/rho pairings, sigma cross-derivation, accessory covariance."""
    report = HarnessReport()
    _, rec = adjudicate_joint_table(k_values, u_grid, tol)
    report.records.extend(rec)
    _, rec = adjudicate_quarter_periods(k_values, tol)
    report.records.extend(rec)
    _, rec = adjudicate_lambda_pairings(tol=tol)
    report.records.extend(rec)
    report.records.extend(adjudicate_sigmas(k_values))
    report.records.extend(adjudicate_accessory_maps(k_values))
    return report


# ---------------------------------------------------------------------------
# frozen-table regeneration


def regenerate_tables():
    """Re-run the adjudicators and serialize the frozen data records.

    Returns (anh_records, row_records, harness_report); the test suite
    diffs these against the files shipped in darboux/data.
    """
    rows, rec_rows = adjudicate_joint_table()
    quarters, rec_quarters = adjudicate_quarter_periods()
    pairings, rec_pairs = adjudicate_lambda_pairings()
    rec_sigma = adjudicate_sigmas()
    rec_acc = adjudicate_accessory_maps()

    def coeff_json(pair):
        return [[complex(pair[0]).real, complex(pair[0]).imag],
                [complex(pair[1]).real, complex(pair[1]).imag]]

    anh_records = []
    for X in ANH_TAGS:
        repairs = []
        for r in rec_quarters + rec_pairs:
            if r.row == X and r.status == "repaired":
                repairs.append(f"{r.fld}: {r.printed} -> {r.adopted} ({r.note})")
        if X == "D":
            repairs.append("h map: printed h*kp^-2*(-h+S) -> (-h+S)/kp^2 (covariance oracle)")
        anh_records.append({
            "tag": X,
            "matrix": [list(r) for r in PRINTED_ANH[X]["matrix"]],
            "cross_ratio": pairings[X]["cross_ratio"],
            "printed_cross_ratio": PRINTED_ANH[X]["cross"],
            "rho": pairings[X]["rho"],
            "printed_rho": list(PRINTED_ANH[X]["rho"]),
            "scale": list(PRINTED_SCALE[X]),
            "kappa": list(PRINTED_KAPPA[X]),
            "kappa_prime": list(PRINTED_KAPPA_PRIME[X]),
            "quarter_K": coeff_json(quarters[X]["quarter_K"]),
            "quarter_Kp": coeff_json(quarters[X]["quarter_Kp"]),
            "quarter_scale": quarters[X]["quarter_scale"],
            "printed_quarter_K": coeff_json(PRINTED_QUARTER[X][1]),
            "hW_tag": HW_TAGS[X],
            "repairs": repairs,
        })
    row_records = [rows[f"{X}{i}"] for X in ANH_TAGS for i in range(4)]
    report = HarnessReport(records=rec_rows + rec_quarters + rec_pairs + rec_sigma + rec_acc)
    return anh_records, row_records, report


def write_frozen_tables(data_dir, docs_dir=None):
    """Write the adjudicated tables (and the repair log, if docs_dir given)."""
    import pathlib

    data_dir = pathlib.Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    anh_records, row_records, report = regenerate_tables()
    with open(data_dir / "anh_elements.jsonl", "w") as fh:
        for r in anh_records:
            fh.write(json.dumps(r) + "\n")
    with open(data_dir / "transform_rows.jsonl", "w") as fh:
        for r in row_records:
            fh.write(json.dumps(r) + "\n")
    if docs_dir is not None:
        docs_dir = pathlib.Path(docs_dir)
        docs_dir.mkdir(parents=True, exist_ok=True)
        with open(docs_dir / "table_repairs.jsonl", "w") as fh:
            for r in report.records:
                if r.status != "ok":
                    fh.write(r.as_json() + "\n")
    return report


# ---------------------------------------------------------------------------
# recursion-variant adjudicator


@dataclass
class VariantEvidence:
    exponents: tuple
    k: complex
    variant: str
    eigenvalue: complex
    residual: float

    def as_json(self) -> str:
        d = {
            "exponents": [str(g) for g in self.exponents],
            "k": str(self.k),
            "variant": self.variant,
            "eigenvalue": str(self.eigenvalue),
            "residual": self.residual,
        }
        return json.dumps(d)


def lvariant_adjudicator(
    tuples=None,
    k_values=DEFAULT_K_VALUES,
    accept: float = 1e-6,
):
    """Decide between the printed and corrected L_m via the residual oracle.

    For each terminating tuple and each variant, build the Darboux
    polynomial at the variant's own eigenvalue and measure the ODE residual
    of the resulting function against the original equation.  The variant
    whose residuals pass `accept` uniformly wins; InconclusiveAdjudication
    if neither passes, or if both pass on a tuple where the disputed
    (xi+1)^2 term does not vanish.

    Returns (verdict, evidence list).
    """
    if tuples is None:
        tuples = [(0, 0, 0, 3), (0, 0, -1, 2), (0, -1, -1, 1), (0, -1, 0, 2)]
    evidence = []
    passing = {"paper": True, "corrected": True}
    informative = False
    for exps in tuples:
        for k in k_values:
            base = ParamTuple(*exps, h=0.0, k=complex(k))
            q = termination_check(base)
            if q is None:
                raise ValueError(f"tuple {exps} does not terminate")
            if abs(exps[0] + 1) > 1e-12:
                informative = True
            for variant in ("corrected", "paper"):
                eig = polynomial_eigenvalues(base, q, variant)[0]
                p = ParamTuple(*exps, h=eig, k=complex(k))
                coeffs = dl_coefficients(p, max(8, 2 * q + 4), variant=variant, mode="forward")

                def f(u, p=p, coeffs=coeffs, variant=variant):
                    return dl_eval(p, u, variant=variant, coeffs=coeffs)

                K, _ = complete_elliptic(k)
                grid = np.linspace(0.25, 0.8, 7) * K.real
                rep = ode_residual(f, p, grid)
                evidence.append(VariantEvidence(
                    exponents=exps, k=complex(k), variant=variant,
                    eigenvalue=complex(eig), residual=rep.max_relative_residual,
                ))
                if rep.max_relative_residual > accept:
                    passing[variant] = False
    if passing["corrected"] and passing["paper"] and informative:
        raise InconclusiveAdjudication("both variants pass on an informative test set")
    if not (passing["corrected"] or passing["paper"]):
        raise InconclusiveAdjudication(f"neither variant passes accept = {accept:g}")
    verdict = "corrected" if passing["corrected"] else "paper"
    return verdict, evidence


def write_variant_evidence(docs_dir, tuples=None):
    import pathlib

    docs_dir = pathlib.Path(docs_dir)
    docs_dir.mkdir(parents=True, exist_ok=True)
    verdict, evidence = lvariant_adjudicator(tuples)
    with open(docs_dir / "lvariant_evidence.jsonl", "w") as fh:
        fh.write(json.dumps({"verdict": verdict}) + "\n")
        for e in evidence:
            fh.write(e.as_json() + "\n")
    return verdict, evidence
