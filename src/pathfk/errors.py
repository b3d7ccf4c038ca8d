"""Exception types shared across the package."""


class GridAlignmentError(ValueError):
    """A requested time or subdivision does not land on the uniform grid."""


class BudgetError(RuntimeError):
    """A nested solve would exceed the desk-scale node budget."""


class SolverError(RuntimeError):
    """The backward solver failed (e.g. Picard divergence)."""


class PreconditionError(RuntimeError):
    """A sampled precondition of a check was violated; the check is aborted."""


class ConfigError(ValueError):
    """A configuration or inline model spec is outside the accepted schema."""
