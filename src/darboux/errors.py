"""Exception types shared across the package.

Every error signals a violated precondition or a numerical contract
failure; computations never return NaN/inf silently.
"""


class DarbouxError(Exception):
    """Base class for all package errors."""


class DegenerateModulus(DarbouxError):
    """Modulus with k^2 in {0, 1} (or non-finite), where the torus degenerates."""


class NonConvergence(DarbouxError):
    """An iteration (AGM, theta series) failed to contract within its cap,
    or was given a non-finite argument."""


class PoleProximity(DarbouxError):
    """Evaluation point within the configured guard radius of a pole."""


class NomeOutOfDisc(DarbouxError):
    """Nome with |q| >= 1; theta series undefined."""


class LowerHalfPlane(DarbouxError):
    """tau with Im(tau) <= 0 where the upper half-plane is required."""


class ParabolicImage(DarbouxError):
    """An anharmonic map produced a real tau (degenerate lattice)."""


class LogarithmicCase(DarbouxError):
    """Exponent parameter in {-3/2, -5/2, ...}: the series solution is
    generically logarithmic and outside this package's scope."""


class NonFiniteExponent(DarbouxError):
    """An exponent or the accessory parameter h is infinite or NaN: the
    recursion weights are undefined."""


class CoefficientOverflow(DarbouxError):
    """Recursion coefficients exceeded the representable range even after
    rescaling; caller must renormalize or reduce the truncation order."""


class OutsideConvergence(DarbouxError):
    """Series evaluation requested outside the certified convergence domain.

    ``index`` is the position of the first offending point when an array of
    points was evaluated, None for a single point."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class DegenerateRecursion(DarbouxError):
    """Some M_m vanishes inside the needed index range."""


class ZeroPivot(DarbouxError):
    """A continued-fraction partial denominator vanished exactly; retry with
    a nudged accessory parameter."""


class DepthUnstable(DarbouxError):
    """A function eigenvalue (a zero of the continued fraction, found from
    the truncation matrix's eigenvalues) moved more than tolerance when the
    continued-fraction depth was doubled."""


class ModulusOnUnitCircle(DarbouxError):
    """|k| = 1: the two candidate convergence radii coincide."""


class InsufficientData(DarbouxError):
    """Not enough coefficients for an asymptotic ratio estimate, or an empty
    sample: no grid point for a residual, no modulus, u point, tau or tuple
    for a table or variant adjudication."""


class DegenerateWronskian(DarbouxError):
    """Wronskian indistinguishable from zero: the two branches are
    proportional (resonance warning)."""


class UntrustedCalibration(DarbouxError):
    """A finite-difference report whose calibration run failed its bound."""


class InconclusiveAdjudication(DarbouxError):
    """The residual oracle cannot pick a recursion variant: both pass on a
    test set where the disputed term does not vanish, or neither passes."""
