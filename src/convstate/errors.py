"""The package's one exception type.

The CLI reports it as `error: <message>` with exit code 1.
"""


class ValidationError(ValueError):
    """Input violates a documented precondition (bad label, shape, range, field)."""
