"""Exception types shared across the package."""


class FlagcohError(Exception):
    """Base class for every failure raised by this package."""


class InvalidCartanMatrix(FlagcohError):
    """Entries do not form a generalized Cartan matrix of finite type."""


class InvariantViolated(FlagcohError):
    """An exact computation broke an identity it guarantees (a bug, not bad input)."""


class CapExceeded(FlagcohError):
    """Requested Weyl group is larger than the enumeration cap."""


class DiamondViolation(FlagcohError):
    """A length-2 Bruhat interval has exactly one complete edge pair.

    Carries the list of offending (bottom, top) vertex pairs; sign solving
    must not proceed past this.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__(f"{len(self.violations)} bad diamond(s): {self.violations[:3]}")


class Unsolvable(FlagcohError):
    """No edge-sign assignment makes the differential square to zero."""


class UnsupportedType(FlagcohError):
    """A valid type that a computation refuses: no tau-function formulas for
    its family or its rank beyond their bound, or no sphere oracle for its
    compact dual."""


class ZeroPolynomial(FlagcohError):
    """Minimal degree of the zero polynomial is undefined."""


class OddSquaredDegree(FlagcohError):
    """A squared tau-function came out with odd minimal degree."""


class FieldNotSplit(FlagcohError):
    """x^2 + 1 does not factor over the requested prime field."""


class WindowTooSmall(FlagcohError):
    """Sampling window does not reach the asymptotic regime of a tau signal."""


class DegenerateSpectrum(FlagcohError):
    """Eigenvalues must be distinct (and sorted) for the companion solution."""
