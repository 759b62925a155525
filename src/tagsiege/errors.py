"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: validation/configuration problems are
exit 2 and model training problems exit 4. Backend errors never reach it: a
target whose backend fails is a skip in the attack's plan, and an attack in
which every target was skipped exits 3.
"""

from __future__ import annotations


class TagSiegeError(Exception):
    """Base class for all package errors."""


class GraphValidationError(TagSiegeError):
    """A graph value violates an invariant (self-loop, bad label, ...)."""


class ParseError(TagSiegeError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, message: str, path: str = "", line: int = 0):
        self.path = path
        self.line = line
        where = f"{path}:{line}: " if path else ""
        super().__init__(f"{where}{message}")


class ShapeError(TagSiegeError):
    """Array or graph dimensions disagree."""


class BudgetError(TagSiegeError):
    """An edit budget is invalid (negative)."""


class PlanInconsistencyError(TagSiegeError):
    """A plan entry contradicts the graph it is applied to."""


class ConfigurationError(TagSiegeError):
    """Invalid or infeasible configuration."""


class DegenerateInputError(TagSiegeError):
    """Input is empty or otherwise carries no usable signal."""


class TemplateError(TagSiegeError):
    """Prompt template is missing a required placeholder or uses an unknown one."""


class RetrievalExhaustedError(TagSiegeError):
    """Every retrieved candidate was filtered out (already adjacent, or the target)."""


class BackendError(TagSiegeError):
    """Attacker backend failed after its retry budget."""


class TrainingError(TagSiegeError):
    """Model training could not run (e.g. empty train split)."""


class DegenerateVectorWarning(UserWarning):
    """Cosine over a zero vector; the value was pinned to maximal uncertainty."""
