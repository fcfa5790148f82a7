"""Exception types shared across the package."""


class QonsagerError(Exception):
    """Base class for all package-specific errors."""


class DomainError(QonsagerError):
    """An argument lies outside an operation's domain (e.g. qbinom(k, l)
    with l < 0 or l > k, or a zero denominator)."""


class EvaluationError(QonsagerError):
    """Numeric specialization hit a pole or a near-root-of-unity point."""


class ConstructionError(QonsagerError):
    """A module or family failed its certification while being built; the
    message carries the first violated relation."""

