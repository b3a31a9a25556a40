"""Exception types raised across the package, and the per-slice error
lists of calls on stacked samples.

A call on a stack of R samples raises no `RdbwError` for one slice: it
returns a list of R entries, each None or the exception that the call on
that slice alone would raise first.  Stages record into the list in the
order a single-sample call runs them, so the earliest error wins.  A
call on one sample runs as the stack of one, and `rdbw.local_poly.stacked`
raises the error of its slice, if any.

`stacked` runs every stage with numpy's warnings off: a slice whose
values leave the floats, as for data in extreme units, computes through
inf and NaN until a check records its error (`DegenerateSample` for an
sd(x) that is not finite, `DegenerateObjective` for a criterion that is
not or for a subnormal variance numerator), so only `RdbwError`
subclasses leave a stage.
"""

import numpy as np


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
    """Bandwidth objective has no interior minimum (both variance terms
    zero), has a subnormal variance numerator (y in units too small to
    keep its digits), or is not finite at the selected pair or anywhere
    on the profile."""


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


class OutputError(RdbwError):
    """An output file or directory cannot be written."""


def record(errors, failed, make):
    """Give each failed slice that has no error yet the error make(r)."""
    for r in np.flatnonzero(failed):
        if errors[r] is None:
            errors[r] = make(r)


def failures(errors):
    """The mask of the slices that have failed."""
    return np.array([error is not None for error in errors])


def merge(errors, later):
    """Add a later stage's per-slice errors, keeping every earlier one."""
    for r, error in enumerate(later):
        if errors[r] is None:
            errors[r] = error
