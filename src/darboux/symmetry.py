"""The symmetry group of the Darboux equation as executable data.

Sign flips (16 of them) act on the exponent parameters; the 24 variable
transformations combine half-period translations (Klein four-group) with
half-period permutations (anharmonic group).  The full group of order
16 x 24 = 384 is the signed-permutation (hyperoctahedral) group on the
four singular points.

Transformation rows and anharmonic elements are loaded from the frozen,
machine-readable data files in ``darboux/data``.  Those files are the
post-adjudication versions: every glyph identity in them holds numerically
to 1e-10 (the adjudicator in :mod:`darboux.verify` regenerates them, and
the test suite diffs the regenerated records against the shipped ones).
Repaired fields carry the original reading in their ``repairs`` notes.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources

from .elliptic import (
    ModulusData,
    _check_modulus,
    _glyph,
    jacobi_sn_cn_dn,
    singular_points,
)

#: scalar token: value = i^a * k^b * k'^c, stored as (a, b, c)
Scalar = tuple[int, int, int]

ANH_TAGS = ("I", "A", "B", "C", "D", "E")

#: the six cross-ratio actions on the lambda invariant
CROSS_RATIOS = {
    "lam": lambda t: t,
    "lam/(lam-1)": lambda t: t / (t - 1),
    "1/lam": lambda t: 1 / t,
    "1-lam": lambda t: 1 - t,
    "(lam-1)/lam": lambda t: (t - 1) / t,
    "1/(1-lam)": lambda t: 1 / (1 - t),
}


def scalar_value(s: Scalar, k: complex, kp: complex) -> complex:
    a, b, c = s
    return (1j) ** (a % 4) * k**b * kp**c


def scalar_repr(s: Scalar) -> str:
    a, b, c = s
    ipart = {0: "", 1: "i*", 2: "-", 3: "-i*"}[a % 4]
    kpart = {0: "", 1: "k*", -1: "(1/k)*"}.get(b, f"k^{b}*")
    kppart = {0: "", 1: "kp*", -1: "(1/kp)*"}.get(c, f"kp^{c}*")
    return (ipart + kpart + kppart).rstrip("*") or "1"


@dataclass(frozen=True)
class ParamTuple:
    """One concrete Darboux equation: exponents, accessory parameter, modulus."""

    xi: complex
    eta: complex
    mu: complex
    nu: complex
    h: complex
    k: complex

    @property
    def exponents(self) -> tuple[complex, complex, complex, complex]:
        return (self.xi, self.eta, self.mu, self.nu)

    def with_exponents(self, exps) -> "ParamTuple":
        xi, eta, mu, nu = exps
        return replace(self, xi=xi, eta=eta, mu=mu, nu=nu)

    def gamma_sum(self) -> complex:
        """Sum of g(g+1) over the four exponent parameters (sign-invariant)."""
        return sum(g * (g + 1) for g in self.exponents)


#: A sign vector: four entries in {+1, -1}; componentwise multiplication.
SignVector = tuple[int, int, int, int]

IDENTITY_SIGNS: SignVector = (1, 1, 1, 1)


def all_sign_vectors() -> list[SignVector]:
    out = []
    for a in (1, -1):
        for b in (1, -1):
            for c in (1, -1):
                for d in (1, -1):
                    out.append((a, b, c, d))
    return out


def gI_apply(signs: SignVector, p: ParamTuple) -> ParamTuple:
    """Sign-flip automorphisms: a minus sign sends gamma to -gamma-1.

    g(g+1) is unchanged, so the equation (h and k included) is untouched;
    only the solution's exponent branch changes.  Involutive per component.
    """
    new = tuple(g if s > 0 else -g - 1 for s, g in zip(signs, p.exponents))
    return p.with_exponents(new)


@dataclass(frozen=True)
class GlyphEntry:
    """One table cell: scalar prefactor times a Jacobi glyph of (u, k)."""

    scalar: Scalar
    glyph: str

    def value(self, u: complex, k: complex) -> complex:
        kp = cmath.sqrt(1 - k * k)
        return scalar_value(self.scalar, k, kp) * _glyph(self.glyph, *jacobi_sn_cn_dn(u, k))

    def __str__(self) -> str:
        s = scalar_repr(self.scalar)
        return self.glyph if s == "1" else f"{s}*{self.glyph}"


@dataclass(frozen=True)
class AnhElement:
    """One anharmonic element: matrix representative, lambda action, weight-2
    permutation, modulus map, substitution scale, quarter periods, h-map tag.

    ``cross_ratio`` and ``rho`` are the adjudicated pairings (the printed
    ones are kept alongside); see the Open Questions notes in the README.
    """

    tag: str
    matrix: tuple[tuple[int, int], tuple[int, int]]
    cross_ratio: str
    printed_cross_ratio: str
    rho: tuple[int, int, int]
    printed_rho: tuple[int, int, int]
    scale: Scalar
    kappa: Scalar
    kappa_prime: Scalar
    quarter_K: tuple[complex, complex]       # K(kappa) = scale_q*(cK*K + cKp*K')
    quarter_Kp: tuple[complex, complex]
    quarter_scale: Scalar
    printed_quarter_K: tuple[complex, complex]
    hW_tag: str                              # Weierstrass-form accessory map
    repairs: tuple[str, ...]

    def kappa_value(self, k: complex) -> complex:
        kp = cmath.sqrt(1 - k * k)
        return scalar_value(self.kappa, k, kp)

    def mobius(self, tau: complex) -> complex:
        (a, b), (c, d) = self.matrix
        return (a * tau + b) / (c * tau + d)


@dataclass(frozen=True)
class TransformRow:
    """One of the 24 variable transformations X_i.

    Substitution: w = scale(k) * (u + b) with b in {0, K, K+iK', iK'} of the
    original modulus; new modulus kappa_X(k); induced parameter permutation
    ``perm`` (new slot j carries old parameter perm[j]); three glyph-map
    identities sn/cn/dn(w, kappa) = entry(u, k).
    """

    name: str
    anh: str
    shift: int
    perm: tuple[int, int, int, int]
    entries: tuple[GlyphEntry, GlyphEntry, GlyphEntry]
    repairs: tuple[str, ...]

    @property
    def klein_index(self) -> int:
        return self.shift

    def substitution(self, u: complex, k: complex) -> complex:
        a, b = self.substitution_parts(k)
        return a * (complex(u) + b)

    def substitution_parts(self, k: complex) -> tuple[complex, complex]:
        md = ModulusData.from_modulus(k)
        anh = anh_element(self.anh)
        a = scalar_value(anh.scale, md.k, md.kp)
        return a, singular_points(k)[self.shift]


# ---------------------------------------------------------------------------
# data loading


def _parse_scalar(v) -> Scalar:
    return (int(v[0]), int(v[1]), int(v[2]))


def _parse_coeff(v) -> tuple[complex, complex]:
    return (complex(v[0][0], v[0][1]), complex(v[1][0], v[1][1]))


@lru_cache(maxsize=1)
def _load_tables() -> tuple[dict[str, AnhElement], dict[str, TransformRow]]:
    pkg = resources.files("darboux.data")
    anh = {}
    for line in (pkg / "anh_elements.jsonl").read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        anh[r["tag"]] = AnhElement(
            tag=r["tag"],
            matrix=tuple(tuple(row) for row in r["matrix"]),
            cross_ratio=r["cross_ratio"],
            printed_cross_ratio=r["printed_cross_ratio"],
            rho=tuple(r["rho"]),
            printed_rho=tuple(r["printed_rho"]),
            scale=_parse_scalar(r["scale"]),
            kappa=_parse_scalar(r["kappa"]),
            kappa_prime=_parse_scalar(r["kappa_prime"]),
            quarter_K=_parse_coeff(r["quarter_K"]),
            quarter_Kp=_parse_coeff(r["quarter_Kp"]),
            quarter_scale=_parse_scalar(r["quarter_scale"]),
            printed_quarter_K=_parse_coeff(r["printed_quarter_K"]),
            hW_tag=r["hW_tag"],
            repairs=tuple(r["repairs"]),
        )
    rows = {}
    for line in (pkg / "transform_rows.jsonl").read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        rows[r["name"]] = TransformRow(
            name=r["name"],
            anh=r["anh"],
            shift=int(r["shift"]),
            perm=tuple(r["perm"]),
            entries=tuple(
                GlyphEntry(scalar=_parse_scalar(e[0]), glyph=e[1]) for e in r["entries"]
            ),
            repairs=tuple(r["repairs"]),
        )
    return anh, rows


def anh_element(tag: str) -> AnhElement:
    return _load_tables()[0][tag]


def anh_elements() -> list[AnhElement]:
    return [_load_tables()[0][t] for t in ANH_TAGS]


def gii_by_name(name: str) -> TransformRow:
    return _load_tables()[1][name]


def gii_elements() -> list[TransformRow]:
    rows = _load_tables()[1]
    return [rows[f"{X}{i}"] for X in ANH_TAGS for i in range(4)]


@lru_cache(maxsize=1)
def _perm_index() -> dict[tuple[int, int, int, int], str]:
    return {row.perm: row.name for row in gii_elements()}


# ---------------------------------------------------------------------------
# operations


def apply_to_variable(row: TransformRow, u: complex, k: complex) -> tuple[complex, complex]:
    """The substitution w = tau_{X_i}(u, k) and the new modulus kappa_X(k)."""
    kappa = anh_element(row.anh).kappa_value(k)
    kappa = _check_modulus(kappa)
    return row.substitution(u, k), kappa


def accessory_map(anh_tag: str, h: complex, gamma_sum: complex, k: complex) -> complex:
    """The accessory-parameter map h_X (Jacobian form, adjudicated table).

    Row D ships the adjudicated formula (-h + S)/k'^2; the printed version
    carries a spurious leading factor h (see the adjudication log).
    """
    k2 = k * k
    kp2 = 1 - k2
    if anh_tag == "I":
        return h
    if anh_tag == "A":
        return (h - k2 * gamma_sum) / kp2
    if anh_tag == "B":
        return -h + gamma_sum
    if anh_tag == "C":
        return h / k2
    if anh_tag == "D":
        return (-h + gamma_sum) / kp2
    if anh_tag == "E":
        return -h / k2 + gamma_sum
    raise ValueError(f"unknown anharmonic tag {anh_tag!r}")


def sigma_and_h(row: TransformRow, p: ParamTuple) -> ParamTuple:
    """Parameters permuted by sigma_{X_i}, h replaced by h_X, k by kappa_X.

    h_X depends only on the anharmonic part (the Klein translations leave it
    unaltered), and the permutation-invariant sum of g(g+1) makes the result
    independent of which representative tuple is supplied.
    """
    exps = p.exponents
    new_exps = tuple(exps[row.perm[j]] for j in range(4))
    kappa = anh_element(row.anh).kappa_value(p.k)
    kappa = _check_modulus(kappa)
    hX = accessory_map(row.anh, p.h, p.gamma_sum(), p.k)
    return ParamTuple(*new_exps, h=hX, k=kappa)


def gii_compose(a: TransformRow, b: TransformRow) -> TransformRow:
    """The element realized by applying a's transformation, then b's.

    Composition lives on the faithful permutation representation; the
    substitution of the composite is re-looked-up from the 24-row table
    (raw substitutions compose only modulo the equation-trivial u -> -u).
    """
    perm = tuple(a.perm[b.perm[j]] for j in range(4))
    return gii_by_name(_perm_index()[perm])


def gii_identity() -> TransformRow:
    return gii_by_name("I0")


@dataclass(frozen=True)
class GroupElement:
    """A signed permutation: sign vector (16 choices) plus a G_II element."""

    signs: SignVector
    gii: TransformRow

    def apply(self, p: ParamTuple) -> ParamTuple:
        """Transform an equation: permute/map via the G_II part, then flip signs."""
        return gI_apply(self.signs, sigma_and_h(self.gii, p))


def gamma_action(row: TransformRow, signs: SignVector) -> SignVector:
    """The semidirect action: sign components permuted by the row's perm."""
    return tuple(signs[row.perm[j]] for j in range(4))


def semidirect_compose(g1: GroupElement, g2: GroupElement) -> GroupElement:
    """Product (n1 Gamma_{h1}(n2), h1 h2) of two signed permutations.

    Matches the convention of :func:`gii_compose`: the result is "apply g1,
    then g2", and Gamma(X)(s) equals the conjugation X s X^{-1} exactly.
    """
    signs = tuple(
        s1 * s2 for s1, s2 in zip(g1.signs, gamma_action(g1.gii, g2.signs))
    )
    return GroupElement(signs=signs, gii=gii_compose(g1.gii, g2.gii))


def enumerate_group() -> list[GroupElement]:
    """All 384 elements of the full symmetry group."""
    return [
        GroupElement(signs=s, gii=row)
        for s in all_sign_vectors()
        for row in gii_elements()
    ]


def jacobi_transform_row(row: TransformRow):
    """The row's three glyph identities as machine-checkable closures.

    Returns three callables; each maps (u, k) to the pair (lhs, rhs) of
    sn/cn/dn(w, kappa) and the table entry evaluated at (u, k).
    """

    def make(j):
        def identity(u: complex, k: complex) -> tuple[complex, complex]:
            w, kappa = apply_to_variable(row, u, k)
            lhs = jacobi_sn_cn_dn(w, kappa)[j]
            rhs = row.entries[j].value(u, k)
            return lhs, rhs

        return identity

    return [make(0), make(1), make(2)]
