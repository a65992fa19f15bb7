"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so library code should raise
the most specific one that applies.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition (bad label, shape, range)."""


class SchemaError(ValidationError):
    """A persisted document failed schema validation; message names the field."""


class ConvergenceError(RuntimeError):
    """An iterative numerical routine hit its iteration cap.

    No routine in the package raises it today; it stays exported, with the
    CLI's exit code 3, for iterative code that needs it. Carries the last
    residual so callers can report how far off it was.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
