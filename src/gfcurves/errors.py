"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain (bad curve type, bad lambda, ...)."""


class MalformedPartitionError(DomainError):
    """Partition parts overlap or fail to cover the index set."""


class NotFreeSubgroupError(DomainError):
    """A subgroup required to act freely has an element with fixed points.

    The offending element is kept in ``witness``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(RuntimeError):
    """An enumeration exceeded its configured work budget."""


class VerificationError(RuntimeError):
    """A numeric verification check failed."""
