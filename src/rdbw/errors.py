"""Exception types raised across the package."""


class RdbwError(Exception):
    """Base class for all errors raised by this package."""


class SingularDesign(RdbwError):
    """Weighted design matrix is rank-deficient at the requested order."""


class DegenerateSample(RdbwError):
    """Sample has no variation where variation is required (e.g. sd(x) = 0)."""


class InsufficientData(RdbwError):
    """Too few observations to run the requested estimator."""


class WeakDiscontinuity(RdbwError):
    """Estimated treatment-probability jump is too small for a stable ratio."""


class DenominatorNearZero(RdbwError):
    """Denominator jump of the ratio estimate is numerically zero."""


class DegenerateObjective(RdbwError):
    """Bandwidth objective has no interior minimum (both variance terms zero)."""


class ZeroCurvature(RdbwError):
    """A closed-form bandwidth formula requires nonzero curvature on both sides."""


class AssumptionViolated(RdbwError):
    """A side condition of the closed-form bandwidth formulas fails exactly."""


class AllTrimmed(RdbwError):
    """Trimming removed every replication."""


class UsageError(RdbwError):
    """Command line arguments are missing, unknown, or inconsistent."""


class ParseError(RdbwError):
    """Input file is malformed (missing column, unparsable or non-finite row)."""


class ValidationError(RdbwError):
    """Data violate the sample invariants: a parsed input file, or generated draws."""
