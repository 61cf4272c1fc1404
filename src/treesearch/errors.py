"""Shared exception types, and the exact solvers' default node cap."""

# The exact solvers refuse larger trees unless given another limit. It is
# defined here, in a module every CLI child runs, so that ``solve --alg
# auto`` reads it without running ``exact``; ``exact`` re-exports it.
DEFAULT_LIMIT = 20


class TreeSearchError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInstanceError(TreeSearchError):
    """The weighted rooted tree (or X3C family) violates its invariants."""


class InvalidDecisionTreeError(TreeSearchError):
    """A decision tree failed validation against its instance."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations) or "invalid decision tree")


class ResourceLimitError(TreeSearchError):
    """An exact solver was asked to run above its configured size cap."""


class InfeasibleError(TreeSearchError):
    """No solution exists within the given height budget."""
