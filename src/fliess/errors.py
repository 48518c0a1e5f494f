"""Exception hierarchy.

Grouped so the CLI can map failures onto stable exit codes:
planning failures and malformed documents (2), inversion
precondition failures (3), and numeric singularities (4).  Every
JSON decoder runs inside decoding(), so a malformed document raises
MapFormatError whatever went wrong inside it.
"""

from contextlib import contextmanager


class FliessError(Exception):
    """Base class for all library errors."""


class AlphabetMismatchError(FliessError, ValueError):
    """Operands disagree on alphabet size where they must match."""


class SingularConstantTermError(FliessError):
    """Shuffle inverse requested for a series whose constant-term matrix is singular."""


class InversionPreconditionError(FliessError):
    """Base for violated hypotheses of the left-inversion theorem."""


class NoRelativeDegreeError(InversionPreconditionError):
    """Some output component has no well-defined relative degree."""

    def __init__(self, component, message=None):
        self.component = component
        super().__init__(message or f"output component {component} has no well-defined relative degree")


class SingularDecouplingError(InversionPreconditionError):
    """The decoupling matrix fails the rank test."""


class MatchingConditionError(InversionPreconditionError):
    """Reference Taylor coefficients below the relative degree disagree with the plant series."""

    def __init__(self, component, order, expected, actual, tol):
        self.component = component
        self.order = order
        self.expected = expected
        self.actual = actual
        self.tol = tol
        super().__init__(
            f"matching condition violated for output {component} at order {order}: "
            f"series coefficient {expected!r} vs reference {actual!r} (|diff| > {tol:g})"
        )


class ConvergenceError(FliessError):
    """The group inverse's fixed point failed to stabilize, or a section's inputs
    miss the reference at the identity gate (signals an implementation fault)."""


class NonFiniteError(FliessError):
    """A series coefficient is NaN or infinite."""


class EvaluationError(FliessError):
    """Symbolic expression evaluation produced a non-finite value."""


class SimulationError(FliessError):
    """Numerical integration blew up; carries the first offending time."""

    def __init__(self, time, message=None):
        self.time = time
        super().__init__(message or f"non-finite state at t={time:g}")


class PlanningError(FliessError):
    """The sampling-based planner failed to reach the goal region."""


class SplineFitError(FliessError):
    """Sectioned spline fit could not be constructed."""


class MapFormatError(FliessError, ValueError):
    """Malformed obstacle-map, path, spline or inputs document, or an out-of-range
    car parameter or pipeline option."""


@contextmanager
def decoding(what, obj):
    """Decode the JSON object obj inside the block; any failure is a MapFormatError.

    A document that is not an object, or whose fields have the wrong
    shape or type, raises MapFormatError("malformed <what> document:
    ...") instead of leaking the KeyError, TypeError or IndexError that
    the decoder ran into.  A MapFormatError from a nested decoder passes
    through unchanged; a non-finite number is not a format error and
    keeps its own exception.
    """
    if not isinstance(obj, dict):
        raise MapFormatError(
            f"malformed {what} document: expected an object, got {type(obj).__name__}"
        )
    try:
        yield
    except MapFormatError:
        raise
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"malformed {what} document: {exc}") from exc
