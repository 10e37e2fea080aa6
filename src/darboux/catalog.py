"""Enumeration, classification and instantiation of the 192 local solutions.

Each catalog entry is three free signs (the fourth parameter's sign is
excluded by construction: it does not appear in the series) together with
one of the 24 variable transformations: 2 x 2 x 2 x 24 = 192.  The entries
split into 8 sets of 24: one set per (singular point, exponent branch)
pair, the members of a set being formally distinct but proportional local
solutions.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .elliptic import SINGULAR_POINT_NAMES, _guarded_grid, jacobi_sn_cn_dn
from .errors import InsufficientData
from .series import (
    convergence_domain,
    darboux_potential,
    dl_coefficients,
    dl_eval,
    dl_second_derivative,
    relative_residual,
    termination_check,
)
from .symmetry import (
    ANH_TAGS,
    ParamTuple,
    TransformRow,
    gii_by_name,
    gI_apply,
    sigma_and_h,
)


@dataclass(frozen=True)
class SolutionId:
    """One of the 192 catalog entries."""

    s_xi: int
    s_eta: int
    s_mu: int
    row: TransformRow

    @property
    def signs(self) -> tuple[int, int, int, int]:
        return (self.s_xi, self.s_eta, self.s_mu, 1)

    @property
    def label(self) -> str:
        pm = {1: "+", -1: "-"}
        return f"{self.row.name}[{pm[self.s_xi]}{pm[self.s_eta]}{pm[self.s_mu]}]"


@dataclass(frozen=True)
class SolutionGroup:
    """(singular point, exponent branch): one of the 8 equivalence sets."""

    singular_point: str          # one of SINGULAR_POINT_NAMES
    exponent_branch: str         # "plus" (gamma+1) | "minus" (-gamma)


@dataclass(frozen=True)
class DlDescriptor:
    """Everything needed to reproduce one instantiated solution."""

    solution_id: SolutionId
    transformed: ParamTuple      # signed, permuted parameters with h_X, kappa_X
    substitution_scale: complex
    substitution_offset: complex
    kappa: complex


def enumerate_192() -> list[SolutionId]:
    """All 192 ids in canonical order: anh type, Klein index, then signs."""
    out = []
    for X in ANH_TAGS:
        for i in range(4):
            row = gii_by_name(f"{X}{i}")
            for s_xi in (1, -1):
                for s_eta in (1, -1):
                    for s_mu in (1, -1):
                        out.append(SolutionId(s_xi=s_xi, s_eta=s_eta, s_mu=s_mu, row=row))
    return out


def classify(sid: SolutionId) -> SolutionGroup:
    """The (singular point, branch) set containing this id.

    The Klein index determines the singular point (the first series slot
    after transformation always carries the parameter attached to that
    point), and the first free sign picks the exponent branch gamma+1
    versus -gamma there.
    """
    return SolutionGroup(
        singular_point=SINGULAR_POINT_NAMES[sid.row.klein_index],
        exponent_branch="plus" if sid.s_xi > 0 else "minus",
    )


def transformed_tuple(sid: SolutionId, p: ParamTuple) -> ParamTuple:
    """sigma_{X_i}-permuted, h_X/kappa_X-mapped, then sign-flipped tuple."""
    return gI_apply(sid.signs, sigma_and_h(sid.row, p))


def instantiate(sid: SolutionId, p: ParamTuple, N: int = 200):
    """An evaluable u -> value composite solution, plus its descriptor.

    The returned callable takes a scalar u or a numpy array of u (elementwise,
    one series evaluation per call).  It evaluates the transformed local series at
    w = tau_{X_i}(u, k); as a function of the original u it solves the
    original equation with the original parameters (the symmetry theorem;
    the residual oracle in the test suite checks exactly this).
    """
    pt = transformed_tuple(sid, p)
    a, b = sid.row.substitution_parts(p.k)
    coeffs = dl_coefficients(pt, N)

    def solution(u):
        w = a * (u + b)
        return dl_eval(pt, w, coeffs=coeffs)

    desc = DlDescriptor(
        solution_id=sid,
        transformed=pt,
        substitution_scale=a,
        substitution_offset=b,
        kappa=pt.k,
    )
    return solution, desc


def transformed_termination(sid: SolutionId, p: ParamTuple) -> int | None:
    """Termination index of the transformed series, if any."""
    return termination_check(transformed_tuple(sid, p))


def transformed_convergence(sid: SolutionId, p: ParamTuple, depth: int = 400) -> float:
    """Convergence radius (in |sn(w, kappa_X)|) of the transformed series."""
    pt = transformed_tuple(sid, p)
    return convergence_domain(pt, pt.h, depth=depth)


def _walk_grid() -> np.ndarray:
    """Outward walk of ``sample_points``: t = 0.12, 0.14, ... accumulated
    while below 3.0, then the first value past it (the walk's end)."""
    ts = [0.12]
    while ts[-1] < 3.0:
        ts.append(ts[-1] + 0.02)
    return np.array(ts)


_WALK = _walk_grid()

#: probes per ``sample_points`` walk call: a block's sn call ends the walk at
#: its first crossing, and every crossing measured lies in the first block
_WALK_BLOCK = 48


#: points ``sample_points`` spreads over the admissible stretch of its ray
SAMPLE_COUNT = 5
#: direction of that ray: pi/5 keeps every scale's ray off the cut
SAMPLE_ANGLE = cmath.pi / 5


def sample_points(sid: SolutionId, p: ParamTuple) -> list[complex]:
    """Original-u points whose images w land safely inside the transformed
    series' convergence domain, along a fixed ray from the singular point
    (fixed rays keep the principal-branch prefactor on one sheet): the
    points w of ``_ray_points`` at kappa_X, mapped back by u = w/a - b."""
    a, b = sid.row.substitution_parts(p.k)
    w = _ray_points(transformed_tuple(sid, p).k)[0]
    return [complex(x) for x in w / a - b]


def _ray_points(kappa: complex):
    """The points w of ``sample_points`` at the modulus kappa, with (sn, cn,
    dn)(w, kappa) there: they depend on kappa alone.

    The ray is walked outward over ``_WALK``, in units of the transformed
    radius min(1, 1/|kappa|) (one batched sn call per ``_WALK_BLOCK``
    probes, stopping at the first block that crosses; a NonConvergence of a
    walked block propagates), until |sn(w, kappa)| reaches 80% of the
    certified bound; ``SAMPLE_COUNT`` points are spread over the admissible
    stretch, staying clear of the singular point itself (finite-difference
    stencils around the returned points must keep the residual oracle's
    pole guard).
    """
    radius = min(1.0, 1.0 / abs(kappa))
    bound = 0.8 * radius
    direction = cmath.exp(1j * SAMPLE_ANGLE)
    walk = _WALK * radius
    # t_max: the walk point before the first probe with |sn| >= bound, else the end
    t_max = walk[-1]
    for lo in range(1, walk.size, _WALK_BLOCK):
        probes = walk[lo:lo + _WALK_BLOCK] * direction
        crossed = np.flatnonzero(np.abs(jacobi_sn_cn_dn(probes, kappa)[0]) >= bound)
        if crossed.size:
            t_max = walk[lo - 1 + crossed[0]]
            break
    w = np.linspace(0.35 * t_max, 0.95 * t_max, SAMPLE_COUNT) * direction
    sn, cn, dn = jacobi_sn_cn_dn(w, kappa)
    keep = np.abs(sn) < bound
    return w[keep], sn[keep], cn[keep], dn[keep]


#: ``exact_residuals``' gate: on correct code the residual is at most about
#: 1e-13 (1.4e-12 at a complex modulus), and an h_X off by 1e-9 relative
#: lifts most ids above it
RESIDUAL_GATE = 1e-10


def exact_residuals(sids: list[SolutionId], p: ParamTuple, N: int = 200,
                    guard: float = 0.05) -> list[tuple[float, int]]:
    """(worst relative residual, point count) of each id's solution over its
    ``sample_points``, from the series' own second derivative.

    At u = w/a - b the solution is y(u) = Y(w), so y'' + (h - V(u)) y =
    a^2 Y''(w) + (h - V(u)) Y(w); the residual is its modulus over |a^2 Y''|
    + |(h - V) Y|, the definition of ``verify.ode_residual``'s report.  The
    walk, its points w and (sn, cn, dn) there depend only on kappa_X, so the
    batch makes them once per anharmonic type, and V once for all the ids'
    points; each id then takes its coefficients and one
    ``dl_second_derivative`` call.  The points pass ``ode_residual``'s pole
    guard (PoleProximity within `guard` of a singular point); an id without
    points raises InsufficientData.
    """
    tuples = [transformed_tuple(sid, p) for sid in sids]
    rays, scales, us = {}, [], []
    for sid, pt in zip(sids, tuples):
        if sid.row.anh not in rays:
            rays[sid.row.anh] = _ray_points(pt.k)
        a, b = sid.row.substitution_parts(p.k)
        scales.append(a)
        us.append(rays[sid.row.anh][0] / a - b)
        if not us[-1].size:
            raise InsufficientData(f"no sample points for {sid.label}")
    potential = darboux_potential(_guarded_grid(np.concatenate(us), p.k, guard), p)
    out, lo = [], 0
    for sid, pt, a, u in zip(sids, tuples, scales, us):
        y, y2 = dl_second_derivative(pt, dl_coefficients(pt, N), *rays[sid.row.anh][1:])
        out.append((relative_residual(a * a * y2, y, potential[lo:lo + u.size], p.h), u.size))
        lo += u.size
    return out
