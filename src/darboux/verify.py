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
import itertools
import json
import math
import pathlib
from dataclasses import dataclass, field
from functools import lru_cache

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
    InsufficientData,
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
    scalar_repr,
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

#: printed accessory maps as gamma of h_X = (h + gamma S) / a^2 (None: 0);
#: row D's lies outside that family and is kept as (h, S, k) -> h_X
PRINTED_GAMMA = {"I": None, "A": (2, 2, 0), "B": (2, 0, 0), "C": None,
                 "D": "h*kp^-2*(-h+S)", "E": (2, 2, 0)}
PRINTED_OFF_FAMILY = {"h*kp^-2*(-h+S)": lambda h, S, k: h * (-h + S) / (1 - k * k)}

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


def _default_u_grid() -> list[complex]:
    re, im = np.random.default_rng(7).random((2, 8))
    return [complex(0.15 + 1.1 * a, 0.6 * (b - 0.5)) for a, b in zip(re, im)]


def _printed_substitution(anh: str, shift: int, k: complex) -> tuple[complex, complex, complex]:
    """The printed substitution w = a (u + b) of a row and its new modulus
    kappa, as (a, b, kappa) at the modulus k."""
    kp = cmath.sqrt(1 - k * k)
    a = scalar_value(PRINTED_SCALE[anh], k, kp)
    kappa = scalar_value(PRINTED_KAPPA[anh], k, kp)
    return a, singular_points(k)[shift], kappa


def _nonempty(sample, what: str):
    """`sample` itself; InsufficientData when it holds nothing to check."""
    if len(sample) == 0:
        raise InsufficientData(f"empty {what}: no point to check")
    return sample


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

#: Stencil offsets in units of the step: the 5-point stencils at step/2 and
#: at step share the centre and +-step.
_FD_OFFSETS = (2.0, 1.0, 0.5, 0.0, -0.5, -1.0, -2.0)


def _richardson(vals, step: float) -> complex:
    """5-point central second derivative with one Richardson level, from the
    values at ``_FD_OFFSETS`` (first axis)."""
    f2, f1, fh, f0, fmh, fm1, fm2 = vals

    def stencil(a2, a1, b1, b2, s):
        return (-a2 + 16 * a1 - 30 * f0 + 16 * b1 - b2) / (12 * s * s)

    return (16 * stencil(f1, fh, fmh, fm1, step / 2) - stencil(f2, f1, fm1, fm2, step)) / 15


def _first_derivative(vals, step: float):
    """5-point central first derivative with one Richardson level, from the
    values at ``_FD_OFFSETS`` (first axis)."""
    f2, f1, fh, _, fmh, fm1, fm2 = vals
    half = (fm1 - 8 * fmh + 8 * fh - f1) / (6 * step)
    full = (fm2 - 8 * fm1 + 8 * f1 - f2) / (12 * step)
    return (16 * half - full) / 15


def _second_derivatives(f, us: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """(f'', f) at every point of `us` from one call of the elementwise f."""
    vals = f(us + step * np.array(_FD_OFFSETS)[:, None])
    return _richardson(vals, step), vals[_FD_OFFSETS.index(0.0)]


@lru_cache(maxsize=64)
def _calibration(grid_size: int, step: float) -> float:
    """The stencil's residual on y = sin against y'' + y = 0 over
    max(grid_size, 5) points of [0.4, 1.9]: a constant of (grid size, step),
    computed once per pair."""
    x = np.linspace(0.4, 1.9, max(grid_size, 5))
    d2, y = _second_derivatives(np.sin, x, step)
    return float(np.max(np.abs(d2 + y) / (np.abs(d2) + np.abs(y) + 1e-300)))


def ode_residual(
    f,
    p: ParamTuple,
    grid,
    step: float = DEFAULT_FD_STEP,
    guard: float = 0.05,
    require_trusted: bool = True,
) -> ResidualReport:
    """Max relative residual of y'' + (h - V) y = 0 for the callable f.

    `f` is elementwise on numpy arrays: it is called once, on the stencil
    points of the whole grid.  Grid points must keep the guard distance
    from all four singular points (and their lattice translates).  The
    same stencil is calibrated on y = sin against y'' + y = 0; an untrusted
    calibration raises unless `require_trusted` is off.  An empty grid
    raises InsufficientData.
    """
    md = ModulusData.from_modulus(p.k)
    pts = _nonempty(np.asarray(grid, dtype=complex).ravel(), "residual grid")
    # the four half-periods modulo (2K, 2iK') form the lattice (K, iK')
    near = _lattice_remainder(pts, md.K, 1j * md.Kp) < guard
    if near.any():
        raise PoleProximity(f"grid point {pts[near.argmax()]} within guard of singular point")
    d2, y = _second_derivatives(f, pts, step)
    rest = (p.h - darboux_potential(pts, p)) * y
    worst = float(np.max(np.abs(d2 + rest) / (np.abs(d2) + np.abs(rest) + 1e-300)))
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

    `f` and `g` are elementwise on numpy arrays, as for ``ode_residual``:
    each is called once, on the stencil points of the whole grid.  Raises
    DegenerateWronskian when the mean is numerically zero (the two
    solutions are proportional: resonance warning), InsufficientData on an
    empty grid.
    """
    us = _nonempty(np.asarray(grid, dtype=complex).ravel(), "Wronskian grid")
    stencil = us + step * np.array(_FD_OFFSETS)[:, None]
    fv, gv = f(stencil), g(stencil)
    centre = _FD_OFFSETS.index(0.0)
    ws = fv[centre] * _first_derivative(gv, step) - _first_derivative(fv, step) * gv[centre]
    mean = ws.mean()
    scale = float(np.max(np.abs(ws)))
    if abs(mean) < 1e-10 * max(scale, 1e-30) or scale == 0:
        raise DegenerateWronskian("Wronskian mean is numerically zero")
    return float(np.max(np.abs(ws - mean)) / abs(mean))


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


#: entry prefactors i^a k^b k'^c, and the 432 candidate entries (scalar,
#: glyph) of the joint table, glyph-major; the printed entries are among them
_REPAIR_SCALARS = tuple((a, b, c) for a in range(4) for b in (-1, 0, 1) for c in (-1, 0, 1))
_CANDIDATES = tuple((s, g) for g in JACOBI_CODES for s in _REPAIR_SCALARS)


def _adopt(table, row, fld, printed, err, hits, note, show=str):
    """The rule for every printed field: adopt the unique candidate that
    passes.  From the printed entry, its error `err` and the passing
    (candidate, error) pairs `hits`: ok when the unique hit is the printed
    entry, repaired (with `note`) when it is another candidate, failed when
    none or several pass (the printed entry is kept).  Returns the adopted
    entry and its record."""
    if len(hits) == 1:
        cand, e = hits[0]
        if cand == printed:
            return printed, CheckRecord(table, row, fld, "ok", e, show(printed), show(printed))
        return cand, CheckRecord(table, row, fld, "repaired", e, show(printed), show(cand), note)
    return printed, CheckRecord(table, row, fld, "failed", err, show(printed), "",
                                f"{len(hits)} candidates passed")


def _substituted_side(anh, shift, k, us):
    """(sn, cn, dn)(a (u + b), kappa) of a printed row's substitution at the
    modulus k: one jacobi_sn_cn_dn call on the u array."""
    a, b, kappa = _printed_substitution(anh, shift, k)
    return np.array(jacobi_sn_cn_dn(a * (us + b), kappa))


def _candidate_sides(ks, us):
    """Every candidate's side s * glyph(u, k), shape (glyph, scalar, k, u) in
    the order of ``_CANDIDATES``, and its error scale max(1, |side|): from one
    jacobi_sn_cn_dn call per modulus and one quotient per glyph."""
    prefactors = np.array([[scalar_value(s, k, cmath.sqrt(1 - k * k)) for k in ks]
                           for s in _REPAIR_SCALARS])
    old = np.moveaxis(np.array([jacobi_sn_cn_dn(us, k) for k in ks]), 1, 0)   # (j, k, u)
    sides = prefactors[:, :, None] * np.array([_glyph(g, *old) for g in JACOBI_CODES])[:, None]
    return sides, np.maximum(1.0, np.abs(sides))


def _entry_errors(lhs, rhs, scale) -> np.ndarray:
    """Max relative error |lhs - rhs| / scale over the trailing (k, u) axes."""
    return np.max(np.abs(lhs - rhs) / scale, axis=(-2, -1))


def adjudicate_joint_table(k_values=DEFAULT_K_VALUES, u_grid=None, tol=1e-10):
    """Check all 24 rows x 3 glyph identities; repair failing entries.

    The candidates of an entry are every i-power prefactor times k, k' to
    the power -1, 0 or 1 times every glyph.  Their sides, and each row's
    substituted side, are evaluated once per modulus on the whole u grid;
    all 432 are scored by array arithmetic, and ``_adopt`` takes the unique
    one passing at `tol` on the (k, u) sample.  An empty sample raises
    InsufficientData.  Returns the adopted rows and the check records.
    """
    ks = [complex(k) for k in _nonempty(k_values, "modulus sample")]
    u_grid = _default_u_grid() if u_grid is None else u_grid
    us = np.array(_nonempty(u_grid, "u grid"), dtype=complex)
    rhs, scale = _candidate_sides(ks, us)
    records = []
    adopted_rows = {}
    for name, (_, printed_entries) in PRINTED_ROWS.items():
        anh = name[0]
        shift = adjudicated_shift(name)
        row_repairs = []
        if name == "D1":
            # printed substitution duplicates D2's; Klein-coset uniqueness
            # forces the remaining representative u + K.
            records.append(CheckRecord(
                table="joint", row=name, fld="substitution", status="repaired",
                max_error=math.nan,
                printed="-i*kp*(u+K+iKp)", adopted="-i*kp*(u+K)",
                note="printed substitution identical to D2; repaired to the missing Klein coset",
            ))
            row_repairs.append("substitution: -i*kp*(u+K+iKp) -> -i*kp*(u+K)")
        new = np.moveaxis(np.array([_substituted_side(anh, shift, k, us) for k in ks]), 1, 0)
        errs = _entry_errors(new[:, None, None], rhs, scale).reshape(3, len(_CANDIDATES))
        entries = []
        for fld, printed, row_errs in zip(("sn", "cn", "dn"), printed_entries, errs):
            err = float(row_errs[_CANDIDATES.index(printed)])
            hits = [(_CANDIDATES[i], float(row_errs[i])) for i in np.flatnonzero(row_errs < tol)]
            entry, rec = _adopt("joint", name, fld, printed, err, hits,
                                f"printed entry off by {err:.2e}",
                                show=lambda e: str(GlyphEntry(*e)))
            entries.append(entry)
            records.append(rec)
            if rec.status == "repaired":
                row_repairs.append(f"{fld}: {rec.printed} -> {rec.adopted}")
        adopted_rows[name] = {
            "name": name,
            "anh": anh,
            "shift": shift,
            "perm": list(PRINTED_SIGMAS[name]),
            "entries": [[list(scalar), glyph] for scalar, glyph in entries],
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
        dists = _lattice_remainder(u_star - np.array(old_points), 2 * md.K, 2j * md.Kp)
        j = int(np.argmin(dists))
        if dists[j] > 1e-8:
            raise ValueError(f"{name}: preimage of {s} not a singular point")
        perm.append(j)
    return tuple(perm)


def adjudicated_shift(name: str) -> int:
    return int(name[1]) if name == "D1" else PRINTED_ROWS[name][0]


def adjudicate_sigmas(k_values=DEFAULT_K_VALUES):
    """Cross-check every printed sigma against the substitution-derived one
    at each modulus; an empty `k_values` raises InsufficientData."""
    _nonempty(k_values, "modulus sample")
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
    """Adjudicate the K(kappa_X), K'(kappa_X) columns against complete_elliptic,
    computed once per modulus k and kappa_X(k).  ``_adopt`` takes the unique
    pair (c1, c2) in {0, +-1, +-i, 1+-i}^2 of K(k), K'(k) passing at `tol` on
    every modulus; an empty `k_values` raises InsufficientData.
    """
    records = []
    adopted = {}
    cand_coeffs = (0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j)
    cand_pairs = [(c1, c2) for c1 in cand_coeffs for c2 in cand_coeffs if (c1, c2) != (0, 0)]
    moduli = [(k, cmath.sqrt(1 - k * k), complete_elliptic(k))
              for k in map(complex, _nonempty(k_values, "modulus sample"))]
    for X in ANH_TAGS:
        qscale, pK, pKp = PRINTED_QUARTER[X]
        adopted[X] = {"quarter_scale": list(qscale)}
        # per k: the printed scale, K(k), K'(k) and (K, K')(kappa_X(k))
        periods = [(scalar_value(qscale, k, kp), K, Kp,
                    complete_elliptic(scalar_value(PRINTED_KAPPA[X], k, kp)))
                   for k, kp, (K, Kp) in moduli]
        note = ("branch convention: principal-AGM value sits on the other side "
                "of the cut" if X in ("C", "E") else "misprint repaired")
        for fld, printed, pick in (("K", pK, 0), ("Kp", pKp, 1)):
            scored = [(pair, max(abs(kappa_periods[pick] - scale * (pair[0] * K + pair[1] * Kp))
                                 / abs(kappa_periods[pick])
                                 for scale, K, Kp, kappa_periods in periods))
                      for pair in cand_pairs]
            err = next(e for pair, e in scored if pair == printed)
            adopted[X]["quarter_" + fld], rec = _adopt(
                "quarter", X, fld, printed, err, [(pair, e) for pair, e in scored if e < tol], note)
            records.append(rec)
    return adopted, records


def adjudicate_lambda_pairings(taus=(0.31 + 1.13j, -0.4 + 0.9j, 2.1j), tol=1e-10):
    """Pair each matrix representative with the cross-ratio it realizes on
    lambda and with the weight-2 permutation of the lattice e-values
    (each computed once per tau and per image of tau).  ``_adopt`` takes the
    unique cross-ratio and the unique permutation passing at `tol` on every
    tau: at tau = i, where lambda = 1 - lambda, cross-ratios pair up and
    fail.  An empty `taus` raises InsufficientData.
    """
    from .weierstrass import evalues_from_tau

    records = []
    adopted = {}
    lams = [lambda_of_tau(t) for t in _nonempty(taus, "tau sample")]
    evs = [evalues_from_tau(t) for t in taus]
    note = "pairing fixed by the lambda = k^2 normalization"
    for X in ANH_TAGS:
        (a, b), (c, d) = PRINTED_ANH[X]["matrix"]
        images = [(a * t + b) / (c * t + d) for t in taus]
        lams_new = [lambda_of_tau(t) for t in images]
        evs_new = [evalues_from_tau(t) for t in images]
        cross_errs = {tag: max(abs(ln - f(lam)) for lam, ln in zip(lams, lams_new))
                      for tag, f in CROSS_RATIOS.items()}
        rho_errs = {
            perm: max(
                max(abs(evn[j] - (c * t + d) ** 2 * ev[perm[j]]) / max(1.0, abs(evn[j]))
                    for j in range(3))
                for t, ev, evn in zip(taus, evs, evs_new)
            )
            for perm in itertools.permutations(range(3))
        }
        pc, pr = PRINTED_ANH[X]["cross"], PRINTED_ANH[X]["rho"]
        cross, rec_cross = _adopt("lambda", X, "cross_ratio", pc, cross_errs[pc],
                                  [(t, e) for t, e in cross_errs.items() if e < tol], note)
        rho, rec_rho = _adopt("rho", X, "rho", pr, rho_errs[pr],
                              [(p, e) for p, e in rho_errs.items() if e < tol], note)
        adopted[X] = {"cross_ratio": cross, "rho": list(rho)}
        records += [rec_cross, rec_rho]
    return adopted, records


#: gamma candidates of h_X = (h + gamma S) / a^2: 0 (None) and i^a k^b k'^c, b, c in -2..2
_GAMMAS = (None,) + tuple((a, b, c) for a in range(4) for b in range(-2, 3) for c in range(-2, 3))


def adjudicate_accessory_maps(k_values=DEFAULT_K_VALUES, tol=1e-10):
    """Adopt each anharmonic type's gamma of h_X = (h + gamma S) / a^2, a the
    substitution scale (the covariance identity h - V(u) = a^2 (h_X - V(w))
    gives h the coefficient 1).  Each gamma of ``_GAMMAS``, and a printed map
    outside the family as written (row D's), is scored by its worst error
    over the type's four rows, every modulus and fixed points u; ``_adopt``
    takes the unique one passing at `tol`.  Empty `k_values`: InsufficientData.
    """
    params = (0.23, -0.41, 0.57, 1.13)
    h = 0.77
    S = sum(g * (g + 1) for g in params)
    us = np.array([0.31 + 0.12j, 0.77 - 0.2j, 1.1 + 0.33j])
    ks = [complex(k) for k in _nonempty(k_values, "modulus sample")]
    lhs = [h - darboux_potential(us, ParamTuple(*params, h=0, k=k)) for k in ks]
    ti, tk, tkp = np.array(_GAMMAS[1:]).T       # h + gamma S per modulus, gamma = 0 first
    shifted = [h + S * np.append(0, 1j**ti * k**tk * cmath.sqrt(1 - k * k) ** tkp) for k in ks]
    adopted, records = {}, []
    for X in ANH_TAGS:
        printed = PRINTED_GAMMA[X]
        outside = PRINTED_OFF_FAMILY.get(printed)     # scored after the family
        terms = []      # (h - V(u), a^2, every candidate's h_X, V(w)) per row and modulus
        for name in (f"{X}{i}" for i in range(4)):
            newp = tuple(params[j] for j in PRINTED_SIGMAS[name])
            for k, side, num in zip(ks, lhs, shifted):
                a, b, kappa = _printed_substitution(X, adjudicated_shift(name), k)
                hX = np.append(num / (a * a), [outside(h, S, k)] if outside else [])
                pot = darboux_potential(a * (us + b), ParamTuple(*newp, h=0, k=kappa))
                terms.append((side, a * a, hX, pot))
        side, a2, hX, pot = map(np.array, zip(*terms))
        rhs = a2[:, None, None] * (hX[:, :, None] - pot[:, None])
        errs = np.max(np.abs(side[:, None] - rhs) / np.maximum(1.0, np.abs(side[:, None])), axis=(0, 2))
        err = float(errs[-1] if outside else errs[_GAMMAS.index(printed)])
        hits = [(_GAMMAS[j], float(errs[j])) for j in np.flatnonzero(errs[:len(_GAMMAS)] < tol)]
        adopted[X], rec = _adopt("accessory", X, "gamma", printed, err, hits,
                                 "the covariance identity fixes h_X = (h + gamma*S)/a^2",
                                 show=lambda g: g if isinstance(g, str) else scalar_repr(g) if g else "0")
        records.append(rec)
    return adopted, records


def regenerate_tables(k_values=DEFAULT_K_VALUES, u_grid=None, tol: float = 1e-10):
    """Run every table check once and serialize the adopted tables.

    The checks, in record order: 24 rows x 3 glyphs, the quarter-period
    columns, the lambda/rho pairings, the sigma cross-derivation (exact) and
    the accessory maps.  All but sigma adopt the unique candidate passing at
    `tol` (``_adopt``), so a sample that cannot decide a field (k = k')
    fails it, and an empty one raises InsufficientData.  Every printed
    reading that differs from the adopted one is kept in its field's
    ``repairs`` note.

    Returns (anh_records, row_records, report); ``write_frozen_tables``
    writes them, and the test suite diffs the default run against the files
    shipped in darboux/data.
    """
    rows, rec_rows = adjudicate_joint_table(k_values, u_grid, tol)
    quarters, rec_quarters = adjudicate_quarter_periods(k_values, tol)
    pairings, rec_pairs = adjudicate_lambda_pairings(tol=tol)
    rec_sigma = adjudicate_sigmas(k_values)
    gammas, rec_acc = adjudicate_accessory_maps(k_values, tol)

    def coeff_json(pair):
        return [[complex(c).real, complex(c).imag] for c in pair]

    anh_records = []
    for X in ANH_TAGS:
        repairs = [f"{r.fld}: {r.printed} -> {r.adopted} ({r.note})"
                   for r in rec_quarters + rec_pairs + rec_acc if r.row == X and r.status == "repaired"]
        anh_records.append({
            "tag": X,
            "matrix": [list(r) for r in PRINTED_ANH[X]["matrix"]],
            "cross_ratio": pairings[X]["cross_ratio"],
            "rho": pairings[X]["rho"],
            "scale": list(PRINTED_SCALE[X]),
            "kappa": list(PRINTED_KAPPA[X]),
            "kappa_prime": list(PRINTED_KAPPA_PRIME[X]),
            "quarter_K": coeff_json(quarters[X]["quarter_K"]),
            "quarter_Kp": coeff_json(quarters[X]["quarter_Kp"]),
            "quarter_scale": quarters[X]["quarter_scale"],
            "gamma": gammas[X],
            "hW_tag": HW_TAGS[X],
            "repairs": repairs,
        })
    row_records = [rows[f"{X}{i}"] for X in ANH_TAGS for i in range(4)]
    report = HarnessReport(records=rec_rows + rec_quarters + rec_pairs + rec_sigma + rec_acc)
    return anh_records, row_records, report


def identity_harness(k_values=DEFAULT_K_VALUES, u_grid=None, tol: float = 1e-10) -> HarnessReport:
    """The check records of one ``regenerate_tables`` run."""
    return regenerate_tables(k_values, u_grid, tol)[2]


def _write_lines(path: pathlib.Path, lines) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(line + "\n" for line in lines))


def write_frozen_tables(data_dir, tables, docs_dir) -> None:
    """Write the (anh_records, row_records, report) of one
    ``regenerate_tables`` run: the two data files to `data_dir`, and the
    repair log (every record that is not ok) to `docs_dir`."""
    anh_records, row_records, report = tables
    data_dir = pathlib.Path(data_dir)
    _write_lines(data_dir / "anh_elements.jsonl", map(json.dumps, anh_records))
    _write_lines(data_dir / "transform_rows.jsonl", map(json.dumps, row_records))
    _write_lines(pathlib.Path(docs_dir) / "table_repairs.jsonl",
                 (r.as_json() for r in report.records if r.status != "ok"))


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
    (xi+1)^2 term does not vanish.  An empty `tuples` or `k_values` raises
    InsufficientData: no evidence gives no verdict.

    Returns (verdict, evidence list).
    """
    if tuples is None:
        tuples = [(0, 0, 0, 3), (0, 0, -1, 2), (0, -1, -1, 1), (0, -1, 0, 2)]
    _nonempty(k_values, "modulus sample")
    evidence = []
    passing = {"paper": True, "corrected": True}
    informative = False
    for exps in _nonempty(tuples, "tuple sample"):
        for k in k_values:
            base = ParamTuple(*exps, h=0.0, k=complex(k))
            q = termination_check(base)
            if q is None:
                raise ValueError(f"tuple {exps} does not terminate")
            if abs(exps[0] + 1) > 1e-12:
                informative = True
            grid = np.linspace(0.25, 0.8, 7) * complete_elliptic(k)[0].real
            for variant in ("corrected", "paper"):
                eig = polynomial_eigenvalues(base, q, variant)[0]
                p = ParamTuple(*exps, h=eig, k=complex(k))
                coeffs = dl_coefficients(p, max(8, 2 * q + 4), variant=variant, mode="forward")
                rep = ode_residual(lambda u: dl_eval(p, u, variant=variant, coeffs=coeffs), p, grid)
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


def write_variant_evidence(docs_dir, verdict, evidence) -> None:
    """Write one ``lvariant_adjudicator`` run: its verdict, then its evidence."""
    _write_lines(pathlib.Path(docs_dir) / "lvariant_evidence.jsonl",
                 [json.dumps({"verdict": verdict}), *(e.as_json() for e in evidence)])
