"""Local series solutions and the full symmetry group of the Darboux
equation on a torus, with a numerical oracle layer that adjudicates every
transformation table it ships.

The public names load on first use (PEP 562): ``import darboux`` imports
no submodule, and the first access to a name imports its home module (and
what that module imports), so a process compiles only the layers it calls.
"""

import importlib

#: home module -> the public names it defines
_EXPORTS = {
    "elliptic": (
        "JACOBI_CODES",
        "ModulusData",
        "complete_elliptic",
        "jacobi",
        "jacobi_sn_cn_dn",
        "lambda_of_tau",
        "nome_and_tau",
        "theta",
    ),
    "symmetry": (
        "GroupElement",
        "ParamTuple",
        "SignVector",
        "anh_element",
        "anh_elements",
        "apply_to_variable",
        "enumerate_group",
        "gI_apply",
        "gii_by_name",
        "gii_compose",
        "gii_elements",
        "semidirect_compose",
        "sigma_and_h",
    ),
    "series": (
        "convergence_domain",
        "darboux_function_eigenvalues",
        "darboux_potential",
        "dl_coefficients",
        "dl_eval",
        "infinite_cf",
        "polynomial_eigenvalues",
        "ratio_diagnostic",
        "recursion_coeffs",
        "termination_check",
    ),
    "weierstrass": (
        "CurvePoint",
        "EValues",
        "accessory_weierstrass",
        "anh_on_E",
        "curve_add",
        "darboux_potential_algebraic",
        "evalues_from_modulus",
        "evalues_from_tau",
        "half_period_shift",
        "wp",
        "wp_tau",
    ),
    "catalog": (
        "SolutionId",
        "classify",
        "enumerate_192",
        "instantiate",
        "transformed_convergence",
        "transformed_termination",
    ),
    "reductions": (
        "assoc_lame_subgroup",
        "duplication_pair",
        "lame_subgroup",
        "landen_pair",
    ),
    "verify": (
        "identity_harness",
        "lvariant_adjudicator",
        "ode_residual",
        "wronskian_constancy",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the home module of a public name on its first access and bind
    the name here, so that later accesses do not come back."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
